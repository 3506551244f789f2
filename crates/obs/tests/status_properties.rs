//! Property tests for the live-telemetry layer: campaign-status
//! snapshots survive a JSON round trip field for field, atomic writes
//! always leave a readable file behind, and the windowed time-series
//! derivations respect their rate/EWMA invariants under arbitrary
//! monotone observation streams.

use obs::status::{parse_status, read_status, write_atomic, CampaignStatus, WorkerLane};
use obs::timeseries::{Ewma, WindowedCounter};
use proptest::prelude::*;

/// A structurally valid snapshot: outcome counts partition `done`,
/// `done` never exceeds `total`, and the optional fields flip on and
/// off with the inputs.
#[allow(clippy::too_many_arguments)]
fn status_of(
    label: String,
    total: u64,
    done_frac: (u64, u64, u64),
    rates: (f64, f64),
    eta: Option<f64>,
    journal: Option<String>,
    stall: Option<f64>,
    lanes: Vec<(u64, Option<u64>, bool)>,
) -> CampaignStatus {
    let (detected, undetected, failed) = done_frac;
    let done = detected + undetected + failed;
    let total = total.max(done);
    CampaignStatus {
        label,
        state: if done == total { "complete" } else { "running" }.to_owned(),
        total,
        done,
        replayed: detected.min(done),
        detected,
        undetected,
        failed,
        elapsed_ms: rates.0 * 100.0,
        faults_per_sec: rates.0,
        ewma_faults_per_sec: rates.1,
        eta_ms: eta,
        counters: vec![
            ("newton_iterations".to_owned(), detected * 13 + 1),
            ("status_drops".to_owned(), failed),
        ],
        phases: vec![("lu_factor".to_owned(), detected * 1000, detected)],
        workers: lanes
            .into_iter()
            .enumerate()
            .map(|(i, (completed, fault, stalled))| WorkerLane {
                lane: i as u64,
                fault,
                fault_name: fault.map(|f| format!("fault-{f}")),
                busy_ms: completed as f64 * 7.5,
                heartbeat_age_ms: if stalled { 9_000.0 } else { 10.0 },
                completed,
                stalled,
                hot_phase: stalled.then(|| "newton".to_owned()),
            })
            .collect(),
        journal,
        stall_after_ms: stall,
        updated_at_ms: rates.0 * 1e3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshots_round_trip_through_json(
        label in "[a-z0-9._-]{1,24}",
        total in 0u64..10_000,
        done_frac in (0u64..1_000, 0u64..1_000, 0u64..1_000),
        rates in (0.0f64..1e4, 0.0f64..1e4),
        eta in (any::<bool>(), 0.0f64..1e7).prop_map(|(s, v)| s.then_some(v)),
        journal in (any::<bool>(), "[ -~]{0,32}").prop_map(|(s, v)| s.then_some(v)),
        stall in (any::<bool>(), 1.0f64..1e5).prop_map(|(s, v)| s.then_some(v)),
        lanes in collection::vec(
            (
                0u64..500,
                (any::<bool>(), 0u64..500).prop_map(|(s, v)| s.then_some(v)),
                any::<bool>(),
            ),
            0..6,
        ),
    ) {
        let status = status_of(label, total, done_frac, rates, eta, journal, stall, lanes);
        let text = status.to_json().to_json_pretty();
        let back = parse_status(&text).map_err(TestCaseError::Fail)?;
        // Every field — including worker lanes and optional members —
        // comes back exactly; the derived views agree with it.
        prop_assert_eq!(&back, &status);
        prop_assert_eq!(back.remaining(), status.total - status.done);
        prop_assert_eq!(back.is_terminal(), status.state != "running");
        // Compact rendering parses to the same snapshot too.
        prop_assert_eq!(parse_status(&status.to_json().to_json()).map_err(TestCaseError::Fail)?, status);
    }

    #[test]
    fn atomic_writes_always_read_back(
        total in 1u64..100,
        done in 0u64..100,
        case in 0usize..1_000_000,
    ) {
        let done = done.min(total);
        let status = status_of(
            format!("atomic-{case}"),
            total,
            (done, 0, 0),
            (1.0, 1.0),
            None,
            None,
            None,
            vec![(done, None, false)],
        );
        let dir = std::env::temp_dir().join("obs-status-props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("status-{case}.json"));
        write_atomic(&path, &status).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let back = read_status(&path)
            .map_err(|e| TestCaseError::Fail(e.to_string()))?
            .expect("written snapshot reads back");
        prop_assert_eq!(back, status);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn windowed_counters_respect_monotone_totals(
        increments in collection::vec((1.0f64..1e3, 0.0f64..50.0), 1..64),
    ) {
        let mut counter = WindowedCounter::with_capacity(16, 0.3);
        let mut t = 0.0f64;
        let mut total = 0.0f64;
        for &(dt, dv) in &increments {
            t += dt;
            total += dv;
            counter.observe(t, total);
        }
        // A monotone counter over advancing timestamps can never show a
        // negative rate, windowed or smoothed.
        if let Some(rate) = counter.rate_per_sec() {
            prop_assert!(rate >= 0.0, "windowed rate {rate}");
        }
        if increments.len() >= 2 {
            let ewma = counter.ewma_per_sec().expect("two advancing samples smooth");
            prop_assert!(ewma >= 0.0, "ewma rate {ewma}");
        }
    }

    #[test]
    fn ewma_stays_within_the_observed_range(
        alpha in 0.01f64..1.0,
        values in collection::vec(-1e6f64..1e6, 1..64),
    ) {
        let mut e = Ewma::new(alpha);
        for &v in &values {
            e.update(v);
        }
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let got = e.value().expect("seeded by the first observation");
        // A convex combination of observations can never escape their
        // range (tiny slack for accumulated rounding).
        let slack = 1e-9 * max.abs().max(min.abs()).max(1.0);
        prop_assert!(got >= min - slack && got <= max + slack, "{got} outside [{min}, {max}]");
    }
}
