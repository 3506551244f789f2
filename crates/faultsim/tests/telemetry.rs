//! Integration tests for live campaign telemetry, per ISSUE 9:
//!
//! * a watcher polling `status.json` while the campaign runs sees
//!   monotonically non-decreasing progress that converges on the final
//!   report's counts;
//! * a hung worker (extraction sleeping far past the stall threshold)
//!   is flagged `stalled` in a live snapshot while its fault is in
//!   flight;
//! * canonical reports are byte-identical with telemetry armed or
//!   disarmed — the wall-clock quarantine holds end to end — and the
//!   snapshot is the one file telemetry writes;
//! * a resumed campaign seeds the progress rollup with the replayed
//!   outcomes;
//! * every terminal path leaves a terminal snapshot: a cancelled
//!   campaign `cancelled` with idle lanes, a journal abort `aborted`.
//!
//! The fixture mirrors the chaos suite: an RC ladder whose node-c
//! transient response is the 20-sample signature.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use anasim::netlist::Netlist;
use anasim::robust::{CancelToken, SolveBudget, SolveSettings};
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::AnalysisError;
use faultsim::campaign::{run_campaign_with, CampaignConfig, JournalConfig};
use faultsim::model::Fault;
use faultsim::telemetry::TelemetryConfig;
use obs::chaos::FaultPlan;
use obs::status::{self, CampaignStatus};

fn rc_fixture() -> (Netlist, Vec<Fault>) {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    let c = nl.node("c");
    nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::step(5.0, 1e-5));
    nl.resistor("R1", a, b, 10e3);
    nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
    nl.resistor("R2", b, c, 10e3);
    nl.capacitor("C2", c, Netlist::GROUND, 1e-9);
    let faults = vec![
        Fault::stuck_at_0("b-sa0", b),
        Fault::stuck_at_1("b-sa1", b),
        Fault::stuck_at_0("c-sa0", c),
        Fault::stuck_at_1("c-sa1", c),
        Fault::bridge("b-c-br", b, c),
        Fault::bridge("a-c-br", a, c).with_impedance(1e9),
    ];
    (nl, faults)
}

fn transient_extract(nl: &Netlist, settings: &SolveSettings) -> Result<Vec<f64>, AnalysisError> {
    let c = nl.find_node("c").expect("node c");
    let result = TransientAnalysis::new(2e-4, 2e-6)
        .with_settings(settings)
        .run(nl)?;
    let w = result.voltage(c);
    Ok((0..20).map(|k| w.value_at(k as f64 * 1e-5)).collect())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("faultsim-telemetry-int").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls `status.json` until `stop` accepts a snapshot or the deadline
/// passes, returning every successfully read snapshot in order.
fn poll_status(
    dir: &std::path::Path,
    deadline: Duration,
    stop: impl Fn(&CampaignStatus) -> bool,
) -> Vec<CampaignStatus> {
    let started = std::time::Instant::now();
    let path = dir.join(status::STATUS_FILE);
    let mut seen = Vec::new();
    while started.elapsed() < deadline {
        if let Ok(Some(snapshot)) = status::read_status(&path) {
            let done = stop(&snapshot);
            seen.push(snapshot);
            if done {
                return seen;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    seen
}

#[test]
fn watcher_sees_monotone_progress_converging_on_the_report() {
    let (nl, faults) = rc_fixture();
    let dir = temp_dir("monotone");
    let config = CampaignConfig::new(0.5)
        .workers(2)
        .telemetry(TelemetryConfig::new(&dir).interval(Duration::from_millis(5)));
    let (report, seen) = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| {
            run_campaign_with(&nl, &faults, &config, |n, settings| {
                // A little artificial latency so the monitor thread gets
                // to publish mid-campaign snapshots.
                std::thread::sleep(Duration::from_millis(15));
                transient_extract(n, settings)
            })
            .unwrap()
        });
        let seen = poll_status(&dir, Duration::from_secs(30), CampaignStatus::is_terminal);
        (campaign.join().unwrap(), seen)
    });

    assert!(!seen.is_empty(), "watcher never read a snapshot");
    // Progress only ever moves forward, even though the watcher raced
    // the atomic snapshot replacement the whole way.
    for pair in seen.windows(2) {
        assert!(
            pair[1].done >= pair[0].done,
            "done went backwards: {} then {}",
            pair[0].done,
            pair[1].done
        );
        assert_eq!(pair[1].total, pair[0].total);
    }
    // The terminal snapshot agrees with the report, field for field.
    let last = seen.last().unwrap();
    assert_eq!(last.state, "complete");
    assert_eq!(last.label, "campaign", "un-journaled campaigns use the default label");
    assert_eq!(last.total, faults.len() as u64);
    assert_eq!(last.done, faults.len() as u64);
    assert_eq!(last.detected, report.detected_count() as u64);
    assert_eq!(
        last.detected + last.undetected + last.failed,
        faults.len() as u64
    );
    assert_eq!(last.eta_ms, Some(0.0), "nothing remains at completion");
    assert!(last.faults_per_sec > 0.0, "throughput must be nonzero: {last:?}");
    assert_eq!(last.workers.len(), 2);
    let completed: u64 = last.workers.iter().map(|w| w.completed).sum();
    assert_eq!(completed, faults.len() as u64, "every fault completed on a lane");
}

#[test]
fn hung_workers_are_flagged_stalled_while_the_fault_is_in_flight() {
    let (nl, faults) = rc_fixture();
    let faults = &faults[..2];
    let dir = temp_dir("stall");
    // A 5 ms wall budget puts the stall threshold at 4 × 5 ms = 20 ms;
    // an extraction sleeping 400 ms is unmistakably hung by then.
    let config = CampaignConfig::new(0.5)
        .workers(1)
        .budget(SolveBudget::unlimited().wall(Duration::from_millis(5)))
        .telemetry(TelemetryConfig::new(&dir).interval(Duration::from_millis(5)));
    std::thread::scope(|scope| {
        let campaign = scope.spawn(|| {
            run_campaign_with(&nl, faults, &config, |n, settings| {
                std::thread::sleep(Duration::from_millis(400));
                transient_extract(n, settings)
            })
        });
        let seen = poll_status(&dir, Duration::from_secs(30), |s| {
            s.workers.iter().any(|w| w.stalled)
        });
        let stalled = seen
            .last()
            .filter(|s| s.workers.iter().any(|w| w.stalled))
            .unwrap_or_else(|| panic!("no snapshot ever flagged a stall: {seen:?}"));
        let lane = stalled.workers.iter().find(|w| w.stalled).unwrap();
        assert!(lane.fault.is_some(), "a stalled lane has a fault in flight");
        assert!(
            lane.heartbeat_age_ms > stalled.stall_after_ms.unwrap(),
            "{lane:?} vs {:?}",
            stalled.stall_after_ms
        );
        // The campaign itself still finishes; the flag is advisory.
        campaign.join().unwrap().unwrap();
    });
    let last = status::read_status(&dir.join(status::STATUS_FILE))
        .unwrap()
        .unwrap();
    assert_eq!(last.state, "complete");
}

#[test]
fn canonical_reports_are_byte_identical_with_telemetry_armed() {
    let (nl, faults) = rc_fixture();
    let config = CampaignConfig::new(0.5).workers(2);
    let bare = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();

    let dir = temp_dir("quarantine");
    let armed_config = config
        .clone()
        .telemetry(TelemetryConfig::new(&dir).interval(Duration::from_millis(1)));
    let armed = run_campaign_with(&nl, &faults, &armed_config, transient_extract).unwrap();

    // Telemetry wrote its one sidecar, the snapshot...
    let files: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, [status::STATUS_FILE]);
    // ...and changed nothing the campaign is accountable for.
    assert_eq!(armed.canonical_text(), bare.canonical_text());
}

#[test]
fn resumed_campaigns_seed_the_replayed_rollup() {
    let (nl, faults) = rc_fixture();
    let dir = temp_dir("resume");
    let journal = dir.join("campaign.jsonl");
    let first = run_campaign_with(
        &nl,
        &faults,
        &CampaignConfig::new(0.5).journal(JournalConfig::fresh(&journal, "rc")),
        transient_extract,
    )
    .unwrap();

    let config = CampaignConfig::new(0.5)
        .journal(JournalConfig::resume(&journal, "rc"))
        .telemetry(TelemetryConfig::new(&dir));
    let resumed = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();
    assert_eq!(resumed.canonical_text(), first.canonical_text());

    let last = status::read_status(&dir.join(status::STATUS_FILE))
        .unwrap()
        .unwrap();
    assert_eq!(last.state, "complete");
    assert_eq!(last.label, "rc");
    assert_eq!(last.journal.as_deref(), Some(journal.to_str().unwrap()));
    // Every fault came back from the journal: done == replayed, and the
    // outcome split matches the report without simulating anything.
    assert_eq!(last.done, faults.len() as u64);
    assert_eq!(last.replayed, faults.len() as u64);
    assert_eq!(last.detected, resumed.detected_count() as u64);
}

#[test]
fn a_cancelled_campaign_leaves_a_cancelled_snapshot_with_idle_lanes() {
    let (nl, faults) = rc_fixture();
    let dir = temp_dir("cancelled");
    let journal_path = dir.join("campaign.jsonl");
    let cancel = CancelToken::new();
    let calls = AtomicUsize::new(0);
    // The golden extraction is call 0; the token trips inside the third
    // fault extraction, after two faults completed.
    let extract = |n: &Netlist, settings: &SolveSettings| {
        if calls.fetch_add(1, Ordering::SeqCst) == 3 {
            cancel.cancel();
            return Err(AnalysisError::Cancelled);
        }
        transient_extract(n, settings)
    };
    let config = CampaignConfig::new(0.5)
        .workers(2)
        .journal(JournalConfig::fresh(&journal_path, "rc"))
        .cancel(cancel.clone())
        .telemetry(TelemetryConfig::new(&dir));
    let err = run_campaign_with(&nl, &faults, &config, extract).unwrap_err();
    assert!(matches!(err, AnalysisError::Cancelled), "{err:?}");

    let last = status::read_status(&dir.join(status::STATUS_FILE))
        .unwrap()
        .unwrap();
    assert_eq!(last.state, "cancelled");
    assert!(last.done < faults.len() as u64, "{last:?}");
    for lane in &last.workers {
        assert_eq!(lane.fault, None, "lane {} holds a fault", lane.lane);
    }
    let contents = obs::journal::read_journal(&journal_path).unwrap();
    let last_record = contents.records.last().unwrap().get("record");
    assert_eq!(
        last_record.and_then(obs::json::JsonValue::as_str),
        Some("cancelled")
    );
    assert!(faultsim::journal::load(&journal_path).unwrap().campaigns["rc"].cancelled);
}

#[test]
fn a_journal_abort_leaves_an_aborted_snapshot() {
    let (nl, faults) = rc_fixture();
    let dir = temp_dir("aborted");
    // Every write from the second on fails: the first fault record is
    // lost, and the campaign stops at the next fault boundary.
    let jc = JournalConfig::fresh(dir.join("campaign.jsonl"), "rc")
        .chaos(FaultPlan::parse("write@1..").unwrap());
    let config = CampaignConfig::new(0.5)
        .journal(jc)
        .telemetry(TelemetryConfig::new(&dir));
    let err = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap_err();
    assert!(
        matches!(&err, AnalysisError::InvalidParameter(msg) if msg.contains("campaign journal")),
        "{err:?}"
    );
    let last = status::read_status(&dir.join(status::STATUS_FILE))
        .unwrap()
        .unwrap();
    assert_eq!(last.state, "aborted");
    assert!(last.is_terminal());
}
