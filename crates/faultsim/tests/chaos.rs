//! Chaos suite: fault campaigns against a journal whose storage layer
//! fails on a deterministic, seeded schedule (`obs::chaos`).
//!
//! The invariants under test:
//!
//! * a fault outcome the journal acked is never lost;
//! * interior journal records are never corrupted — the file always
//!   loads (at worst with a torn tail);
//! * any injected failure aborts the campaign at the next fault
//!   boundary with a typed error, and resuming it produces a report
//!   byte-identical to an uninterrupted run.
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
use faultsim::campaign::{run_campaign_with, CampaignConfig, CampaignReport, JournalConfig};
use faultsim::journal;
use faultsim::model::Fault;
use obs::chaos::FaultPlan;

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

fn config(journal: JournalConfig) -> CampaignConfig {
    CampaignConfig::new(0.5).journal(journal)
}

/// The uninterrupted, chaos-free baseline for a given label.
fn clean_report(label: &str) -> CampaignReport {
    let (nl, faults) = rc_fixture();
    let path = temp_journal(&format!("{label}-clean.jsonl"));
    run_campaign_with(
        &nl,
        &faults,
        &config(JournalConfig::fresh(&path, label)),
        transient_extract,
    )
    .unwrap()
}

/// The message of the typed error a journal abort fails a campaign with.
fn abort_message(err: &AnalysisError) -> &str {
    match err {
        AnalysisError::InvalidParameter(msg) => msg,
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// One failure rule: abort at a fault boundary, then resume.
// ---------------------------------------------------------------------

#[test]
fn each_injected_fault_aborts_and_resume_is_byte_identical() {
    let (nl, faults) = rc_fixture();
    let clean = clean_report("chaos").canonical_text();
    // A failed write, a failed sync after the bytes landed, and a short
    // write that leaves a torn line: each stops the journal for good.
    for (spec, name) in [("write@2", "write"), ("sync@4", "sync"), ("trunc@6:3", "trunc")] {
        let path = temp_journal(&format!("one-{name}.jsonl"));
        let jc = JournalConfig::fresh(&path, "chaos").chaos(FaultPlan::parse(spec).unwrap());
        let err = run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap_err();
        let msg = abort_message(&err);
        assert!(msg.contains("aborted at the next fault boundary"), "{spec}: {msg}");
        assert!(msg.contains("injected"), "{spec}: {msg}");

        // The journal still loads, with no terminal record: it resumes
        // like one a hard kill left behind.
        let replay = journal::load(&path).unwrap();
        let campaign = replay.campaign("chaos").unwrap();
        assert!(!campaign.complete && !campaign.cancelled, "{spec}");
        assert!(campaign.faults.len() < faults.len(), "{spec}");

        let resumed = run_campaign_with(
            &nl,
            &faults,
            &config(JournalConfig::resume(&path, "chaos")),
            transient_extract,
        )
        .unwrap();
        assert_eq!(resumed.canonical_text(), clean, "{spec}");
        let replay = journal::load(&path).unwrap();
        assert!(!replay.torn_tail, "{spec}: resume truncates the torn tail");
        assert!(replay.campaign("chaos").unwrap().complete, "{spec}");
    }
}

#[test]
fn persistent_failure_aborts_at_a_fault_boundary_and_resume_recovers() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("abort.jsonl");
    // Every write from index 3 on fails: the start record and first two
    // fault records land, then the journal dies for good.
    let jc = JournalConfig::fresh(&path, "chaos").chaos(FaultPlan::parse("write@3..").unwrap());
    let err = run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap_err();
    let msg = abort_message(&err);
    assert!(msg.contains("campaign journal"), "{msg}");
    assert!(msg.contains("abort.jsonl"), "error must name the file: {msg}");
    assert!(
        msg.contains(&format!("2 of {} fault outcomes journaled", faults.len())),
        "error must count what was journaled: {msg}"
    );

    // Interior-never-corrupted: the file still loads (the failed append
    // left at most a torn tail) and holds exactly the acked records.
    let replay = journal::load(&path).unwrap();
    let campaign = replay.campaign("chaos").unwrap();
    assert!(!campaign.complete);
    assert_eq!(campaign.faults.len(), 2, "the acked outcomes survive");

    // Acked-never-lost + resume: with the fault cleared, a resume
    // replays the acked outcomes, simulates the rest, and the final
    // report is byte-identical to an uninterrupted run.
    let jc = JournalConfig::resume(&path, "chaos");
    let resumed =
        run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap();
    assert_eq!(resumed.canonical_text(), clean_report("chaos").canonical_text());
    let replay = journal::load(&path).unwrap();
    assert!(replay.campaign("chaos").unwrap().complete);
}

#[test]
fn a_journal_with_a_degraded_record_fails_resume_by_record_and_label() {
    // Written by the journal format's earlier degrade-and-continue
    // mode: the start record, one fault, then a `degraded` terminal
    // record for the five outcomes that never reached the file.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/degraded.jsonl");
    let path = temp_journal("degraded.jsonl");
    fs::copy(fixture, &path).unwrap();
    let (nl, faults) = rc_fixture();
    let jc = JournalConfig::resume(&path, "chaos");
    let err = run_campaign_with(&nl, &faults, &config(jc), transient_extract).unwrap_err();
    let msg = abort_message(&err);
    assert!(
        msg.contains("record 3: unknown record type \"degraded\" for label \"chaos\""),
        "{msg}"
    );
    // The refused journal is left as it was.
    assert_eq!(fs::read(&path).unwrap(), fs::read(fixture).unwrap());
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
        let jc = JournalConfig::fresh(&path, "chaos").chaos(plan);
        match run_campaign_with(&nl, &faults, &config(jc), transient_extract) {
            Ok(report) => {
                // No fault fired: a complete journal with every outcome.
                assert_eq!(report.canonical_text(), clean, "seed {seed}");
                let replay = journal::load(&path).unwrap();
                let campaign = replay.campaign("chaos").unwrap();
                assert!(campaign.complete, "seed {seed}");
                assert_eq!(campaign.faults.len(), faults.len(), "seed {seed}");
            }
            Err(err) => {
                // Aborted, in the prologue or at a fault boundary; the
                // file, if any, still loads.
                assert!(abort_message(&err).contains("campaign journal"), "seed {seed}");
                if path.exists() {
                    journal::load(&path).unwrap();
                }
            }
        }
        // Resume (chaos cleared) converges to the clean baseline
        // byte for byte, aborted or not.
        let resumed = run_campaign_with(
            &nl,
            &faults,
            &config(JournalConfig::resume(&path, "chaos")),
            transient_extract,
        )
        .unwrap();
        assert_eq!(resumed.canonical_text(), clean, "seed {seed}");
    }
}
