//! Crash-safety integration tests for the campaign journal.
//!
//! The unit tests in `campaign.rs` cover cooperative cancellation; this
//! file covers the *hard-kill* path: a journal whose final line was torn
//! mid-write (the process died between `write` and the newline reaching
//! disk) must resume to a `CampaignReport` byte-identical to an
//! uninterrupted run. The property tests drive the JSONL codecs with
//! arbitrary statuses, telemetry and cut points.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use anasim::metrics::SolverSnapshot;
use anasim::netlist::Netlist;
use anasim::robust::SolveSettings;
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::{AnalysisError, BudgetKind};
use faultsim::campaign::{
    run_campaign_with, CampaignConfig, CampaignReport, FaultStatus, FaultTelemetry, JournalConfig,
};
use faultsim::journal::{
    self, fault_record, float_from_json, float_to_json, start_record, status_from_json,
    status_to_json, telemetry_from_json, telemetry_to_json,
};
use faultsim::model::Fault;
use obs::journal::parse_journal;
use obs::json::JsonValue;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Shared fixture (mirrors the campaign unit tests: an RC ladder whose
// transient response at node c is the 20-sample signature)
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
    let dir = std::env::temp_dir().join("faultsim-journal-roundtrip");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

/// Simulates a hard kill: drops the terminal `complete` line and leaves
/// the last fault record torn mid-line (no trailing newline), exactly
/// the state `fsync`-per-record leaves behind when the process dies
/// mid-append. Returns the number of fault records that survive intact.
fn hard_kill(complete_journal: &str) -> (String, usize) {
    let mut lines: Vec<&str> = complete_journal.lines().collect();
    let terminal = lines.pop().expect("terminal record");
    assert!(terminal.contains("\"complete\""), "expected complete record");
    let torn = lines.pop().expect("a fault record to tear");
    assert!(torn.contains("\"fault\""), "expected a fault record");
    let survivors = lines.iter().filter(|l| l.contains("\"fault\"")).count();
    let mut killed = lines.join("\n");
    killed.push('\n');
    killed.push_str(&torn[..torn.len() / 2]);
    (killed, survivors)
}

fn canonical_report(report: &CampaignReport) -> String {
    let mut run = obs::RunReport::new();
    run.push(report.to_section("campaign.rc"));
    run.canonical_json_string()
}

// ---------------------------------------------------------------------
// Kill-and-resume integration tests
// ---------------------------------------------------------------------

#[test]
fn hard_killed_journal_resumes_byte_identical() {
    let (nl, faults) = rc_fixture();
    let reference =
        run_campaign_with(&nl, &faults, &CampaignConfig::new(0.05), transient_extract).unwrap();

    // Journal a full run serially, so fault records land in universe
    // order and the torn record is the last fault (a-c-br, index 5).
    let path = temp_journal("hard-kill.jsonl");
    let config = CampaignConfig::new(0.05)
        .workers(1)
        .journal(JournalConfig::fresh(&path, "rc"));
    run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();

    let complete = fs::read_to_string(&path).unwrap();
    let (killed, survivors) = hard_kill(&complete);
    assert_eq!(survivors, faults.len() - 1);

    // The torn journal is readable: the partial line is dropped, the
    // prefix replays cleanly, and nothing is marked terminal.
    fs::write(&path, &killed).unwrap();
    let replayed = journal::load(&path).unwrap();
    assert!(replayed.torn_tail);
    let campaign = replayed.campaign("rc").expect("campaign survives the kill");
    assert!(!campaign.complete && !campaign.cancelled);
    assert_eq!(campaign.faults.len(), survivors);
    assert!(!campaign.faults.contains_key(&5), "torn record is dropped");

    // Resume re-simulates only the torn fault and lands byte-identical
    // to the uninterrupted reference.
    let resuming = config.journal(JournalConfig::resume(&path, "rc"));
    let fault_sims = AtomicUsize::new(0);
    let resumed = run_campaign_with(&nl, &faults, &resuming, |n, settings| {
        if n.devices().any(|(_, name, _)| name.starts_with("fault:")) {
            fault_sims.fetch_add(1, Ordering::Relaxed);
        }
        transient_extract(n, settings)
    })
    .unwrap();
    assert_eq!(fault_sims.load(Ordering::Relaxed), 1);
    assert_eq!(resumed.canonical_text(), reference.canonical_text());
    assert_eq!(canonical_report(&resumed), canonical_report(&reference));
    assert!(journal::load(&path).unwrap().campaign("rc").unwrap().complete);
    let _ = fs::remove_file(&path);
}

#[test]
fn parallel_resume_of_a_killed_journal_is_byte_identical() {
    let (nl, faults) = rc_fixture();
    let reference =
        run_campaign_with(&nl, &faults, &CampaignConfig::new(0.05), transient_extract).unwrap();

    let path = temp_journal("hard-kill-parallel.jsonl");
    let serial = CampaignConfig::new(0.05)
        .workers(1)
        .journal(JournalConfig::fresh(&path, "rc"));
    run_campaign_with(&nl, &faults, &serial, transient_extract).unwrap();
    let (killed, _) = hard_kill(&fs::read_to_string(&path).unwrap());
    fs::write(&path, &killed).unwrap();

    // Resume with a full worker pool: replayed records keep their
    // journaled bytes, re-simulated ones are deterministic, so worker
    // count cannot leak into the report.
    let parallel = CampaignConfig::new(0.05)
        .workers(4)
        .journal(JournalConfig::resume(&path, "rc"));
    let resumed = run_campaign_with(&nl, &faults, &parallel, transient_extract).unwrap();
    assert_eq!(resumed.canonical_text(), reference.canonical_text());
    assert_eq!(canonical_report(&resumed), canonical_report(&reference));
    let _ = fs::remove_file(&path);
}

#[test]
fn postmortem_bearing_records_replay_exactly() {
    let (nl, faults) = rc_fixture();
    // b-sa1 fails every rung with the flight recorder armed, so its
    // journaled record carries a frozen postmortem.
    let failing = |n: &Netlist, settings: &SolveSettings| {
        if n.find_device("fault:b-sa1:V").is_some() {
            return Err(AnalysisError::NoConvergence {
                time: 1e-5,
                residual: 42.0,
                iterations: 7,
            });
        }
        transient_extract(n, settings)
    };
    let reference = run_campaign_with(
        &nl,
        &faults,
        &CampaignConfig::new(0.05).flight(16),
        failing,
    )
    .unwrap();
    assert!(
        reference.postmortems().count() > 0,
        "fixture must freeze a postmortem"
    );

    let path = temp_journal("postmortem-kill.jsonl");
    let config = CampaignConfig::new(0.05)
        .workers(1)
        .flight(16)
        .journal(JournalConfig::fresh(&path, "rc"));
    run_campaign_with(&nl, &faults, &config, failing).unwrap();
    let (killed, _) = hard_kill(&fs::read_to_string(&path).unwrap());
    fs::write(&path, &killed).unwrap();

    // The postmortem rides the replayed record (index 1 is not the torn
    // line), so the resumed report embeds it byte-for-byte.
    let resuming = config.journal(JournalConfig::resume(&path, "rc"));
    let resumed = run_campaign_with(&nl, &faults, &resuming, failing).unwrap();
    assert_eq!(resumed.canonical_text(), reference.canonical_text());
    assert_eq!(canonical_report(&resumed), canonical_report(&reference));
    let _ = fs::remove_file(&path);
}

/// Rewrites one journal line's solver counters into the 19-counter shape
/// written before the rank-one-update tier, the dense fallback and the
/// stale demotion tier were removed: `hazard.rank1_breakdown` after
/// `hazard.pivot_growth`, `demote.stale` after `hazard.ill_conditioned`
/// and `demote.dense` after `demote.symbolic`, all zero as every such
/// run recorded them. Lines without a solver object pass through
/// unchanged.
fn with_retired_counters(line: &str) -> String {
    let mut record = obs::json::parse(line).expect("journal line parses");
    let JsonValue::Obj(fields) = &mut record else {
        panic!("journal line is not an object")
    };
    for (key, value) in fields.iter_mut() {
        if key != "telemetry" {
            continue;
        }
        let JsonValue::Obj(telemetry) = value else {
            panic!("telemetry is not an object")
        };
        for (key, solver) in telemetry.iter_mut() {
            if key != "solver" {
                continue;
            }
            let JsonValue::Obj(counters) = solver else {
                panic!("solver counters are not an object")
            };
            let mut widened = Vec::new();
            for (name, count) in counters.drain(..) {
                let retired = match name.as_str() {
                    "hazard.pivot_growth" => Some("hazard.rank1_breakdown"),
                    "hazard.ill_conditioned" => Some("demote.stale"),
                    "demote.symbolic" => Some("demote.dense"),
                    _ => None,
                };
                widened.push((name, count));
                if let Some(retired) = retired {
                    widened.push((retired.to_owned(), JsonValue::Num(0.0)));
                }
            }
            assert_eq!(widened.len(), 19, "the older record shape has 19 counters");
            *counters = widened;
        }
    }
    record.to_json()
}

#[test]
fn records_with_retired_solver_counters_resume_to_the_same_report() {
    let (nl, faults) = rc_fixture();
    let path = temp_journal("retired-counters.jsonl");
    let config = CampaignConfig::new(0.05)
        .workers(1)
        .journal(JournalConfig::fresh(&path, "rc"));
    let reference = run_campaign_with(&nl, &faults, &config, transient_extract).unwrap();

    // Every fault record now carries the older 19-counter shape, and
    // the journal is cut before its `complete` record so the resume
    // has to replay it.
    let complete = fs::read_to_string(&path).unwrap();
    let mut older: Vec<String> = complete.lines().map(with_retired_counters).collect();
    let terminal = older.pop().expect("terminal record");
    assert!(terminal.contains("\"complete\""), "expected complete record");
    assert!(older.iter().any(|l| l.contains("\"demote.dense\":0")));
    assert!(older.iter().any(|l| l.contains("\"demote.stale\":0")));
    let mut text = older.join("\n");
    text.push('\n');
    fs::write(&path, &text).unwrap();

    // Each record decodes to the telemetry the campaign measured.
    let replayed = journal::load(&path).unwrap();
    let campaign = replayed.campaign("rc").expect("campaign replays");
    assert_eq!(campaign.faults.len(), faults.len());
    for (index, fault) in &campaign.faults {
        assert_eq!(
            fault.telemetry.solver.as_array(),
            reference.stats.per_fault[*index].solver.as_array(),
            "fault {index}"
        );
    }

    // Resuming simulates nothing and lands on the same report.
    let resuming = config.journal(JournalConfig::resume(&path, "rc"));
    let fault_sims = AtomicUsize::new(0);
    let resumed = run_campaign_with(&nl, &faults, &resuming, |n, settings| {
        if n.devices().any(|(_, name, _)| name.starts_with("fault:")) {
            fault_sims.fetch_add(1, Ordering::Relaxed);
        }
        transient_extract(n, settings)
    })
    .unwrap();
    assert_eq!(fault_sims.load(Ordering::Relaxed), 0);
    assert_eq!(resumed.canonical_text(), reference.canonical_text());
    assert_eq!(canonical_report(&resumed), canonical_report(&reference));
    let _ = fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Property tests: arbitrary records survive JSONL encode -> decode
// ---------------------------------------------------------------------

fn arb_float() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0e12..1.0e12f64).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => v * 1e-300, // deep into the subnormal range
        6 => 5e-324,     // smallest positive subnormal
        _ => v,
    })
}

/// Strings that stress the JSON escaper: quotes, backslashes, newlines.
const MESSY_TEXT: &str = "[a-z0-9 \\n\\\\\\\"]{0,16}";

fn arb_error() -> impl Strategy<Value = AnalysisError> {
    (
        0u8..6,
        (arb_float(), arb_float()),
        (0usize..1000, 0usize..1_000_000),
        MESSY_TEXT,
    )
        .prop_map(|(kind, (time, residual), (row, steps), msg)| match kind {
            0 => AnalysisError::NoConvergence {
                time,
                residual,
                iterations: steps,
            },
            1 => AnalysisError::SingularMatrix { row },
            2 => AnalysisError::InvalidParameter(msg),
            3 => AnalysisError::UnknownElement(msg),
            4 => AnalysisError::BudgetExceeded {
                time,
                steps,
                kind: if row % 2 == 0 {
                    BudgetKind::Steps
                } else {
                    BudgetKind::WallClock
                },
            },
            _ => AnalysisError::Cancelled,
        })
}

fn arb_status() -> impl Strategy<Value = FaultStatus> {
    (
        (0u8..6, arb_float()),
        arb_error(),
        (1usize..5, (0usize..64, 0usize..64)),
        MESSY_TEXT,
    )
        .prop_map(
            |((kind, pct), error, (rungs_tried, (got, want)), payload)| match kind {
                0 => FaultStatus::Detected { pct },
                1 => FaultStatus::Undetected { pct },
                2 => FaultStatus::SimFailed { error, rungs_tried },
                3 => FaultStatus::BudgetExceeded { rungs_tried },
                4 => FaultStatus::SignatureMismatch { got, want },
                _ => FaultStatus::Panicked { payload },
            },
        )
}

fn arb_telemetry() -> impl Strategy<Value = FaultTelemetry> {
    (
        proptest::collection::vec(0u64..100_000, 6),
        (any::<bool>(), 0usize..4),
        1usize..5,
        0u64..60_000,
    )
        .prop_map(
            |(counters, (has_rung, rung), rungs_tried, wall_ms)| FaultTelemetry {
                solver: SolverSnapshot {
                    newton_iterations: counters[0],
                    steps_accepted: counters[1],
                    steps_rejected: counters[2],
                    dt_shrinks: counters[3],
                    dc_gmin_steps: counters[4],
                    dc_source_steps: counters[5],
                    ..SolverSnapshot::default()
                },
                rung: if has_rung { Some(rung) } else { None },
                rungs_tried,
                wall: Duration::from_millis(wall_ms),
                postmortem: None,
                ..FaultTelemetry::default()
            },
        )
}

fn arb_signature() -> impl Strategy<Value = Option<Vec<f64>>> {
    (any::<bool>(), proptest::collection::vec(arb_float(), 0..12))
        .prop_map(|(present, sig)| if present { Some(sig) } else { None })
}

fn bits(sig: &Option<Vec<f64>>) -> Option<Vec<u64>> {
    sig.as_ref()
        .map(|v| v.iter().map(|f| f.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn floats_round_trip_bit_exact(v in arb_float()) {
        let text = float_to_json(v).to_json();
        let back = float_from_json(&obs::json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(v.to_bits(), back.to_bits(), "{} -> {}", v, text);
    }

    #[test]
    fn statuses_survive_jsonl_encode_decode(status in arb_status()) {
        let text = status_to_json(&status).to_json();
        let parsed = obs::json::parse(&text).unwrap();
        let back = status_from_json(&parsed).unwrap();
        // NaN != NaN under PartialEq: compare through the canonical
        // encoding, which is bit-exact for every float.
        prop_assert_eq!(status_to_json(&back).to_json(), text);
    }

    #[test]
    fn telemetry_survives_jsonl_encode_decode(t in arb_telemetry()) {
        let text = telemetry_to_json(&t).to_json();
        let back = telemetry_from_json(&obs::json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back.solver, &t.solver);
        prop_assert_eq!(back.rung, t.rung);
        prop_assert_eq!(back.rungs_tried, t.rungs_tried);
        prop_assert!(back.postmortem.is_none());
        // Wall-clock is excluded from the canonical byte-identity
        // guarantee (reports zero it); the codec keeps it to within a
        // microsecond over the full generated range.
        let drift = (back.wall.as_secs_f64() - t.wall.as_secs_f64()).abs();
        prop_assert!(drift < 1e-6, "wall drifted {drift}s");
    }

    #[test]
    fn fault_records_survive_journal_replay(
        status in arb_status(),
        telemetry in arb_telemetry(),
        signature in arb_signature(),
        index in 0usize..2,
    ) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let faults = [Fault::stuck_at_0("f0", a), Fault::stuck_at_0("f1", b)];
        let name = faults[index].name().to_owned();

        let mut text = start_record("p", &faults, 0.05, 20).to_json();
        text.push('\n');
        text += &fault_record("p", index, &name, signature.as_deref(), &status, &telemetry)
            .to_json();
        text.push('\n');

        let replayed = journal::replay(&parse_journal(&text).unwrap()).unwrap();
        let campaign = replayed.campaign("p").unwrap();
        prop_assert!(!campaign.complete);
        let fault = campaign.faults.get(&index).unwrap();
        prop_assert_eq!(&fault.name, &name);
        prop_assert_eq!(bits(&fault.signature), bits(&signature));
        prop_assert_eq!(
            status_to_json(&fault.status).to_json(),
            status_to_json(&status).to_json()
        );
        prop_assert_eq!(&fault.telemetry.solver, &telemetry.solver);
        prop_assert_eq!(fault.telemetry.rung, telemetry.rung);
        prop_assert_eq!(fault.telemetry.rungs_tried, telemetry.rungs_tried);
    }

    #[test]
    fn any_truncation_of_a_journal_replays_a_clean_prefix(
        statuses in proptest::collection::vec(arb_status(), 2..5),
        seed in 0usize..100_000,
    ) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let faults = [Fault::stuck_at_0("f0", a), Fault::stuck_at_0("f1", b)];
        let telemetry = FaultTelemetry {
            solver: SolverSnapshot::default(),
            rung: Some(0),
            rungs_tried: 1,
            wall: Duration::from_millis(1),
            postmortem: None,
            ..FaultTelemetry::default()
        };
        let mut text = start_record("p", &faults, 0.05, 20).to_json();
        text.push('\n');
        for (i, status) in statuses.iter().enumerate() {
            let index = i % faults.len();
            text += &fault_record(
                "p",
                index,
                faults[index].name(),
                Some(&[1.5, -0.0]),
                status,
                &telemetry,
            )
            .to_json();
            text.push('\n');
        }

        // Kill the writer at an arbitrary byte: every journal prefix
        // must stay readable (torn tail dropped, full lines replayed).
        // Journal text is pure ASCII, so any byte index is a char
        // boundary.
        let cut = 1 + seed % (text.len() - 1);
        let contents = parse_journal(&text[..cut]).unwrap();
        let replayed = journal::replay(&contents).unwrap();
        let whole_lines = text[..cut].matches('\n').count();
        if whole_lines == 0 {
            prop_assert!(replayed.campaigns.is_empty());
        } else {
            let campaign = replayed.campaign("p").unwrap();
            // Fault records merge by index, later wins: the replayed
            // count is the number of distinct indices among survivors.
            let survivors = whole_lines - 1;
            let distinct = survivors.min(faults.len());
            prop_assert_eq!(campaign.faults.len(), distinct);
        }
        prop_assert_eq!(replayed.torn_tail, !text[..cut].ends_with('\n'));
    }
}
