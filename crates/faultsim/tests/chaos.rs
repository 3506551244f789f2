//! Chaos suite: fault campaigns against a journal whose storage layer
//! fails on a deterministic, seeded schedule (`obs::chaos`).
//!
//! The invariants under test, per ISSUE 6:
//!
//! * a fault outcome the journal acked is never lost;
//! * interior journal records are never corrupted — the file always
//!   loads (at worst with a torn tail);
//! * after any injected failure, resuming the campaign produces a
//!   report byte-identical to an uninterrupted run (transient faults),
//!   or the run cleanly degrades with a `[journal degraded …]` marker
//!   and an accounting of what the journal is missing (persistent
//!   faults under `DegradePolicy::Continue`).
//!
//! Every schedule here is reproducible: scripted windows or a seeded
//! splitmix64 plan, never wall-clock or OS randomness.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use anasim::netlist::Netlist;
use anasim::robust::{CancelToken, SolveSettings};
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::AnalysisError;
use faultsim::campaign::{
    run_campaign_with, CampaignConfig, CampaignReport, DegradePolicy, JournalConfig,
};
use faultsim::journal;
use faultsim::model::Fault;
use obs::chaos::FaultPlan;
use obs::journal::RetryPolicy;

// ---------------------------------------------------------------------
// Fixture: an RC ladder whose transient response at node c is the
// 20-sample signature (mirrors the campaign/journal test fixtures).
// ---------------------------------------------------------------------

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

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("faultsim-chaos");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

/// Retries with no wall-clock cost: chaos tests exercise the loop, not
/// the backoff.
fn quiet_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy::attempts(attempts).with_sleep(|_| {})
}

fn config(journal: JournalConfig) -> CampaignConfig {
    CampaignConfig::new(0.5).journal(journal)
}

/// The uninterrupted, chaos-free baseline for a given label.
fn clean_report(label: &str) -> CampaignReport {
    let (nl, faults) = rc_fixture();
    let path = temp_journal(&format!("{label}-clean.jsonl"));
    let report = run_campaign_with(
        &nl,
        &faults,
        &config(JournalConfig::fresh(&path, label)),
        transient_extract,
    )
    .unwrap();
    assert!(report.degradation.is_none());
    report
}

// ---------------------------------------------------------------------
// Transient faults: absorbed by the retry policy, invisible to callers.
// ---------------------------------------------------------------------

#[test]
fn transient_faults_are_absorbed_and_the_report_is_byte_identical() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("transient.jsonl");
    // One scripted write failure and one scripted sync failure, each
    // comfortably inside a 3-attempt retry budget.
    let plan = FaultPlan::parse("write@2,sync@4,trunc@6:3").unwrap();
    let jc = JournalConfig::fresh(&path, "chaos")
        .retry(quiet_retry(3))
        .chaos(plan);
    let report = run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap();

    assert!(report.degradation.is_none(), "transient faults must not degrade");
    assert!(
        report.stats.journal_retries >= 3,
        "three injected faults → at least three retries, got {}",
        report.stats.journal_retries
    );
    assert_eq!(report.canonical_text(), clean_report("chaos").canonical_text());

    // Acked-never-lost: the journal replays complete, with every fault.
    let replay = journal::load(&path).unwrap();
    let campaign = replay.campaign("chaos").unwrap();
    assert!(campaign.complete);
    assert_eq!(campaign.faults.len(), faults.len());
    assert!(campaign.degraded.is_none());
}

// ---------------------------------------------------------------------
// Persistent faults, DegradePolicy::Abort (the default).
// ---------------------------------------------------------------------

#[test]
fn persistent_failure_aborts_at_a_fault_boundary_and_resume_recovers() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("abort.jsonl");
    // Every write from index 3 on fails: the start record and first two
    // fault records land, then the journal dies for good.
    let jc = JournalConfig::fresh(&path, "chaos")
        .retry(quiet_retry(2))
        .chaos(FaultPlan::parse("write@3..").unwrap());
    let err = run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap_err();
    let msg = match &err {
        AnalysisError::InvalidParameter(msg) => msg.clone(),
        other => panic!("expected InvalidParameter, got {other:?}"),
    };
    assert!(msg.contains("campaign journal"), "{msg}");
    assert!(msg.contains("abort.jsonl"), "error must name the file: {msg}");
    assert!(msg.contains("after 2 attempts"), "error must count attempts: {msg}");

    // Interior-never-corrupted: the file still loads (the failed append
    // left at most a torn tail) and holds exactly the acked records.
    let replay = journal::load(&path).unwrap();
    let campaign = replay.campaign("chaos").unwrap();
    assert!(!campaign.complete);
    let acked = campaign.faults.len();
    assert!(acked < faults.len(), "the outage must have dropped outcomes");

    // Acked-never-lost + resume: with the fault cleared, a resume
    // replays the acked outcomes, simulates the rest, and the final
    // report is byte-identical to an uninterrupted run.
    let jc = JournalConfig::resume(&path, "chaos");
    let resumed =
        run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap();
    assert!(resumed.degradation.is_none());
    assert_eq!(resumed.canonical_text(), clean_report("chaos").canonical_text());
    let replay = journal::load(&path).unwrap();
    assert!(replay.campaign("chaos").unwrap().complete);
}

// ---------------------------------------------------------------------
// Persistent faults, DegradePolicy::Continue.
// ---------------------------------------------------------------------

#[test]
fn continue_policy_finishes_journal_less_with_a_degradation_marker() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("continue.jsonl");
    // Write 2 fails once (no retry budget to absorb it), write 3 — the
    // degraded terminal record — succeeds: a bounded outage whose
    // journal self-describes its gap.
    let jc = JournalConfig::fresh(&path, "chaos")
        .retry(RetryPolicy::none())
        .chaos(FaultPlan::parse("write@2").unwrap());
    let cfg = config(jc).degrade(DegradePolicy::Continue);
    let report = run_campaign_with(&nl, &faults, &cfg, transient_extract).unwrap();

    // The campaign itself is complete: every fault has an outcome.
    assert_eq!(report.outcomes.len(), faults.len());
    let degradation = report.degradation.as_ref().expect("must degrade");
    assert_eq!(degradation.journaled, 1, "only the first fault was acked");
    assert_eq!(degradation.unjournaled, faults.len() - 1);
    assert!(degradation.reason.contains("injected"), "{}", degradation.reason);

    // The canonical marker and the section counter both surface it.
    let text = report.canonical_text();
    assert!(text.contains("[journal degraded: 5 unjournaled of 6 faults"), "{text}");
    let section = report.to_section("campaign");
    assert_eq!(section.counters.get("journal_degraded.faults"), Some(&5));

    // The journal replays, knows it is degraded, and a resume re-runs
    // the unjournaled faults to a byte-identical clean report.
    let replay = journal::load(&path).unwrap();
    let campaign = replay.campaign("chaos").unwrap();
    assert!(!campaign.complete);
    let replayed_degradation = campaign.degraded.as_ref().expect("degraded record");
    assert_eq!(replayed_degradation.journaled, 1);
    assert_eq!(replayed_degradation.unjournaled, 5);
    let resumed = run_campaign_with(
        &nl,
        &faults,
        &config(JournalConfig::resume(&path, "chaos")),
        transient_extract,
    )
    .unwrap();
    assert!(resumed.degradation.is_none());
    assert_eq!(resumed.canonical_text(), clean_report("chaos").canonical_text());
}

#[test]
fn canonical_reports_without_chaos_are_unchanged_by_the_new_counters() {
    // The new always-emitted counters must be zero on a healthy run so
    // existing byte-identity guarantees (across worker counts, resumes)
    // keep holding.
    let report = clean_report("chaos-baseline");
    let section = report.to_section("campaign");
    assert_eq!(section.counters.get("journal_degraded.faults"), Some(&0));
    assert_eq!(section.counters.get("journal.retries"), Some(&0));
    assert!(!report.canonical_text().contains("journal degraded"));
}

// ---------------------------------------------------------------------
// Cancellation during journal replay (satellite).
// ---------------------------------------------------------------------

#[test]
fn cancellation_during_replay_stops_promptly_with_a_clean_record() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("replay-cancel.jsonl");
    // A complete journal to replay.
    run_campaign_with(
        &nl,
        &faults,
        &config(JournalConfig::fresh(&path, "chaos")),
        transient_extract,
    )
    .unwrap();

    // The token trips while the golden extraction returns — i.e. after
    // validation but before the replay loop touches its first record —
    // so a replay loop that honours cancellation stops with zero
    // simulations, while one that replays to completion would return a
    // full (complete-journal) report.
    let cancel = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let extract = |nl: &Netlist, settings: &SolveSettings| {
        let sig = transient_extract(nl, settings)?;
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            cancel.cancel();
        }
        Ok(sig)
    };
    let cfg = config(JournalConfig::resume(&path, "chaos")).cancel(cancel.clone());
    let err = run_campaign_with(&nl, &faults, &cfg, extract).unwrap_err();
    assert!(matches!(err, AnalysisError::Cancelled), "{err:?}");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "only the golden extraction may run before replay sees the token"
    );

    // The fresh segment terminated cleanly: the journal replays and the
    // campaign is marked cancelled, with all prior outcomes preserved.
    let replay = journal::load(&path).unwrap();
    let campaign = replay.campaign("chaos").unwrap();
    assert!(campaign.cancelled);
    assert_eq!(campaign.faults.len(), faults.len());
}

// ---------------------------------------------------------------------
// Seeded sweep: randomized-but-reproducible schedules, all invariants.
// ---------------------------------------------------------------------

#[test]
fn seeded_injection_sweep_never_corrupts_and_always_recovers() {
    let (nl, faults) = rc_fixture();
    let clean = clean_report("chaos").canonical_text();
    for seed in 0..12u64 {
        let path = temp_journal(&format!("sweep-{seed}.jsonl"));
        let plan = FaultPlan::seeded(seed, 0.20, 0.15);
        let jc = JournalConfig::fresh(&path, "chaos")
            .retry(quiet_retry(3))
            .chaos(plan);
        let cfg = config(jc).degrade(DegradePolicy::Continue);
        let result = run_campaign_with(&nl, &faults, &cfg, transient_extract);

        match &result {
            Ok(report) => {
                // Interior-never-corrupted: whatever the schedule did,
                // the journal file still loads.
                let replay = journal::load(&path).unwrap();
                let campaign = replay.campaign("chaos").unwrap();
                if let Some(d) = &report.degradation {
                    // Cleanly degraded: the acked outcomes plus the
                    // reported gap cover the whole universe. The file
                    // may hold one *extra* fault record beyond the
                    // acked count — a record whose bytes landed but
                    // whose fsync failed (the documented caveat); it is
                    // a valid outcome, never a corrupt or missing one.
                    assert!(
                        campaign.faults.len() >= d.journaled
                            && campaign.faults.len() <= d.journaled + 1,
                        "seed {seed}: {} journaled, {} in file",
                        d.journaled,
                        campaign.faults.len()
                    );
                    assert_eq!(d.journaled + d.unjournaled, faults.len(), "seed {seed}");
                } else {
                    assert!(campaign.complete, "seed {seed}");
                    assert_eq!(campaign.faults.len(), faults.len(), "seed {seed}");
                }
                // Resume (chaos cleared) must converge to the clean
                // baseline byte-for-byte, degraded or not.
                let resumed = run_campaign_with(
                    &nl,
                    &faults,
                    &config(JournalConfig::resume(&path, "chaos")),
                    transient_extract,
                )
                .unwrap();
                assert_eq!(resumed.canonical_text(), clean, "seed {seed}");
            }
            Err(AnalysisError::InvalidParameter(msg)) => {
                // Only the campaign prologue (opening the journal or
                // the start record) may fail this way — and even then
                // the file must still load.
                assert!(msg.contains("campaign journal"), "seed {seed}: {msg}");
                if path.exists() {
                    journal::load(&path).unwrap();
                }
            }
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
    }
}
